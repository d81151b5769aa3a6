"""Calendar-queue (bucketed) event engine: the one every network model runs on.

The heap engine it derives from (:class:`~repro.sim.engine.Simulator`)
keeps one binary heap entry per event, so every schedule/execute pays an
O(log n) sift over ``[time, seq, fn, args]`` lists.
Flit simulations schedule huge numbers of events at a small set of *distinct*
times, though — serialization boundaries, wire latencies and coalesced credit
returns all land whole groups of callbacks on the same cycle.  This engine
exploits that: events live in per-cycle FIFO buckets (``dict`` keyed by
absolute time), and only the *distinct times* go through a heap.

Buckets are flat ``[fn, args, fn, args, ...]`` lists — scheduling a callback
is two list appends, with no per-event entry object at all.  Cancellable
events (:meth:`schedule`) get a :class:`BucketEvent` handle that tombstones
the callback slot in place.

Ordering contract
-----------------
The heap engine executes events in (time, sequence) order, where the
sequence number increases monotonically with each ``schedule`` call.  Bucket
appends happen in exactly that call order, so FIFO-per-bucket reproduces the
contract precisely — including callbacks that schedule zero-delay work while
their own cycle is being drained (the new entry lands at the tail of the
live bucket and runs in the same pass, just as a freshly pushed heap entry
with a larger sequence number would).

A cursor (current bucket + index) persists across :meth:`step` and
:meth:`run` calls so callers that drive the simulator one event at a time
(``MpiJob``) interoperate with bucket draining.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

from repro.sim.engine import SimulationError, Simulator


class BucketEvent:
    """Cancellation handle for one slot of a calendar bucket.

    Duck-compatible with :class:`repro.sim.engine.Event` (``time``,
    ``cancelled``, ``cancel``).
    """

    __slots__ = ("_bucket", "_index", "_time", "_sim")

    def __init__(self, bucket: list, index: int, time: int, sim: "CalendarSimulator"):
        self._bucket = bucket
        self._index = index
        self._time = time
        self._sim = sim

    @property
    def time(self) -> int:
        """Absolute simulation time the event fires at."""
        return self._time

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (or the event ran)."""
        return self._bucket[self._index] is None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it.

        Idempotent, and a no-op on an event that already executed — the
        live-event counter is only decremented for a genuinely pending
        event.
        """
        bucket = self._bucket
        index = self._index
        if bucket[index] is None:
            return
        bucket[index] = None
        bucket[index + 1] = None
        self._sim._live_events -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<BucketEvent t={self._time}{state}>"


class CalendarSimulator(Simulator):
    """Drop-in replacement for :class:`~repro.sim.engine.Simulator`.

    Executes the exact same event order as the heap engine (see module
    docstring) while doing one heap operation per distinct event *time*
    instead of per event.
    """

    def __init__(self) -> None:
        super().__init__()
        # The inherited ``_queue``/``_seq`` stay unused (kept so repr-style
        # introspection of the base class does not explode).
        self._buckets: Dict[int, List[Any]] = {}
        self._times: List[int] = []
        self._cur_bucket: Optional[List[Any]] = None
        self._cur_time: int = 0
        self._cur_i: int = 0

    # -- inspection ---------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Events still queued (including cancelled ones, like the base)."""
        total = sum(len(bucket) for bucket in self._buckets.values())
        if self._cur_bucket is not None:
            total -= self._cur_i
        return total // 2

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay, fn: Callable[..., None], *args: Any) -> BucketEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if isinstance(delay, float):
            delay = -int(-delay // 1)
        time = self._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = [fn, args]
            self._buckets[time] = bucket
            heapq.heappush(self._times, time)
            index = 0
        else:
            index = len(bucket)
            bucket.append(fn)
            bucket.append(args)
        self._live_events += 1
        return BucketEvent(bucket, index, time, self)

    def schedule_call(self, delay, fn: Callable[..., None], *args: Any) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if isinstance(delay, float):
            delay = -int(-delay // 1)
        time = self._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [fn, args]
            heapq.heappush(self._times, time)
        else:
            bucket.append(fn)
            bucket.append(args)
        self._live_events += 1

    # -- execution ----------------------------------------------------------

    def _open_next_bucket(self, until: Optional[int]) -> bool:
        """Advance the cursor to the next non-empty bucket; False when done.

        The bucket stays registered in ``_buckets`` while it drains so that
        zero-delay schedules from its own callbacks append to it (and run in
        the same pass), matching the heap engine.
        """
        times = self._times
        while True:
            if not times:
                return False
            time = times[0]
            if until is not None and time > until:
                return False
            heapq.heappop(times)
            bucket = self._buckets[time]
            if bucket:
                self._cur_bucket = bucket
                self._cur_time = time
                self._cur_i = 0
                return True
            del self._buckets[time]

    def step(self) -> bool:
        while True:
            bucket = self._cur_bucket
            if bucket is None:
                if not self._open_next_bucket(None):
                    return False
                bucket = self._cur_bucket
            i = self._cur_i
            while i < len(bucket):
                fn = bucket[i]
                if fn is None:
                    i += 2
                    continue
                args = bucket[i + 1]
                bucket[i] = None
                bucket[i + 1] = None
                self._cur_i = i + 2
                self._now = self._cur_time
                hook = self.probe_hook
                if hook is not None and self._cur_time >= hook.next_due:
                    hook.sample(self._cur_time)
                self._events_executed += 1
                self._live_events -= 1
                fn(*args)
                return True
            self._cur_i = i
            if i >= len(bucket):
                self._cur_bucket = None
                del self._buckets[self._cur_time]

    def _run(self, until: Optional[int], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        limit = (1 << 62) if max_events is None else max_events
        executed = 0
        exhausted = False
        hook = self.probe_hook
        try:
            while not exhausted:
                bucket = self._cur_bucket
                if bucket is None:
                    if not self._open_next_bucket(until):
                        break
                    bucket = self._cur_bucket
                elif until is not None and self._cur_time > until:
                    # Resuming with a cursor parked past the horizon (a prior
                    # run stopped on max_events mid-bucket).
                    break
                time = self._cur_time
                # One probe check per bucket (per distinct time) rather than
                # per event: same grid alignment, far fewer branches.
                if hook is not None and time >= hook.next_due:
                    hook.sample(time)
                i = self._cur_i
                while i < len(bucket):
                    fn = bucket[i]
                    if fn is None:
                        i += 2
                        continue
                    if executed >= limit:
                        exhausted = True
                        break
                    args = bucket[i + 1]
                    bucket[i] = None
                    bucket[i + 1] = None
                    i += 2
                    self._now = time
                    self._events_executed += 1
                    self._live_events -= 1
                    executed += 1
                    fn(*args)
                    if self._stop_requested:
                        self._stop_requested = False
                        exhausted = True
                        break
                self._cur_i = i
                if not exhausted and i >= len(bucket):
                    self._cur_bucket = None
                    del self._buckets[time]
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def reset(self) -> None:
        self._now = 0
        # Tombstone every pending slot so stale BucketEvent handles cannot
        # corrupt the live-event counter of the next epoch.
        for bucket in self._buckets.values():
            for i in range(0, len(bucket), 2):
                bucket[i] = None
                bucket[i + 1] = None
        self._buckets.clear()
        self._times.clear()
        self._cur_bucket = None
        self._cur_i = 0
        self._cur_time = 0
        self._events_executed = 0
        self._live_events = 0
        self._stop_requested = False
