"""A directed link with credit-based flow control and packet serialization.

One :class:`Link` models a directed connection (router→router, NIC→router or
router→NIC).  The link owns

* the *output queue* on its upstream side (packets waiting to traverse it) —
  its depth in flits is the "local" congestion signal a router can read
  instantly;
* the *credit count* mirroring the free space of the downstream input
  buffer — credits are consumed when a packet starts traversing the link and
  returned (after the wire latency) once the downstream router forwards the
  packet onward, exactly like Aries' credit flow-control scheme;
* a timestamped history of the downstream occupancy, from which routing
  obtains a far-end congestion estimate ``credit_info_delay`` cycles stale
  (phantom congestion).  The history keeps only the samples such a read
  can still return.

Back-pressure therefore propagates naturally: a congested buffer several hops
away eventually exhausts the credits of upstream links and finally stalls the
sending NIC, which is what the NIC's "request flits stalled cycles" counter
measures.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.network.packet import Packet
from repro.sim.engine import Simulator


class Link:
    """A directed, credit-flow-controlled link.

    Parameters
    ----------
    sim:
        The shared simulator.
    name:
        Human-readable identifier used in traces and error messages.
    latency:
        One-way wire latency in cycles (also used for credit returns).
    width:
        Number of parallel tiles: the link serializes ``width`` flits per
        ``cycles_per_flit`` cycles and its downstream buffer scales with it.
    buffer_flits:
        Downstream input-buffer capacity (per tile) in flits.
    cycles_per_flit:
        Serialization cost of one flit on one tile.
    deliver:
        Callback ``deliver(packet, link)`` invoked when a packet has fully
        arrived at the downstream end.
    measure_stalls:
        When True (NIC injection links), head-of-queue back-pressure stalls
        are reported through ``on_stall``.
    on_stall:
        Callback ``on_stall(cycles, packet)`` used by the NIC counters.
    deadlock_timeout:
        Relief valve: if the head packet has been credit-stalled longer than
        this many cycles, it proceeds anyway (emulating an escape virtual
        channel).  Keeps pathological cyclic-dependency cases from hanging
        the simulation; occurrences are counted in ``deadlock_reliefs``.
    credit_info_delay:
        How many cycles stale :meth:`far_congestion` reads the downstream
        occupancy (the routing config's ``credit_info_delay``).  The link
        keeps a ``(time, occupancy)`` history spanning less than this many
        cycles; ``0`` allocates none and the probe reads the live count.
        Host links are built with ``0``: routing probes only the first hop
        of a candidate path, which is always a fabric link.
    """

    __slots__ = (
        "sim",
        "name",
        "latency",
        "width",
        "capacity",
        "cycles_per_flit",
        "deliver",
        "measure_stalls",
        "on_stall",
        "credits",
        "queue",
        "queue_flits",
        "busy_until",
        "_retry_scheduled",
        "_stall_start",
        "_occ_history",
        "_occ_delayed_value",
        "_window",
        "_credit_arrivals",
        "_wake_scheduled",
        "_ser_table",
        "_schedule_call",
        "_credit_wake_cb",
        "_retry_cb",
        "_arrive_cb",
        "_transmit_done_cb",
        "packets_forwarded",
        "flits_forwarded",
        "credits_returned",
        "queue_wait_cycles",
        "deadlock_timeout",
        "deadlock_reliefs",
        "_stalled_since",
        "_relief_event",
        "on_transmit",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency: int,
        width: int,
        buffer_flits: int,
        cycles_per_flit: int = 1,
        deliver: Optional[Callable[[Packet, "Link"], None]] = None,
        measure_stalls: bool = False,
        on_stall: Optional[Callable[[int, Packet], None]] = None,
        deadlock_timeout: int = 200_000,
        credit_info_delay: int = 0,
    ):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if width < 1:
            raise ValueError("width must be >= 1")
        if buffer_flits < 1:
            raise ValueError("buffer_flits must be >= 1")
        if credit_info_delay < 0:
            raise ValueError("credit_info_delay must be non-negative")
        self.sim = sim
        self.name = name
        self.latency = latency
        self.width = width
        self.capacity = buffer_flits * width
        self.cycles_per_flit = cycles_per_flit
        self.deliver = deliver
        self.measure_stalls = measure_stalls
        self.on_stall = on_stall
        self.credits = self.capacity
        # A deque: a NIC's 1,024-packet window can fill an injection queue,
        # where ``list.pop(0)`` would turn quadratic.
        self.queue: Deque[Packet] = deque()
        self.queue_flits = 0
        self.busy_until = 0
        self._retry_scheduled = False
        self._stall_start: Optional[int] = None
        # (time, occupancy) samples newer than ``now - _window``, in time
        # order and at most one per cycle; older ones are folded into
        # ``_occ_delayed_value``, the value visible ``_window`` cycles late.
        # A list, not a deque: the window keeps it short (at most 129
        # samples in a paper-scale ping-pong), and an empty list takes 56
        # bytes against a deque's 760.
        self._occ_history: Optional[List[Tuple[int, int]]] = (
            [] if credit_info_delay else None
        )
        self._occ_delayed_value = 0
        self._window = credit_info_delay
        #: Credits already on the wire: ``[arrival_cycle, flits]`` batches in
        #: arrival order (returns are issued at monotonically non-decreasing
        #: times, so appends keep the list sorted).  Batches are folded into
        #: ``credits`` lazily by the next reader instead of each paying a
        #: scheduled event; a wake-up event exists only while the link is
        #: actually credit-stalled.  At most one batch per cycle of wire
        #: latency is in flight, so a list stays short.
        self._credit_arrivals: List[list] = []
        self._wake_scheduled = False
        #: flits -> serialization cycles, filled lazily (packet sizes come
        #: from a handful of distinct header/payload combinations).
        self._ser_table: dict = {}
        # Interned callables: scheduling happens hundreds of thousands of
        # times per run, and each ``self._method`` lookup would otherwise
        # allocate a fresh bound-method object.
        self._schedule_call = sim.schedule_call
        self._credit_wake_cb = self._credit_wake
        self._retry_cb = self._retry
        # Arrivals go straight to the delivery callback — no trampoline call
        # per packet.  With no callback configured, arrivals raise instead.
        self._arrive_cb = self._arrive if deliver is None else deliver
        self._transmit_done_cb = self._transmit_done
        self.packets_forwarded = 0
        self.flits_forwarded = 0
        self.credits_returned = 0
        #: Cumulative cycles packets spent waiting in this output queue — the
        #: analogue of a network-tile stall counter (used for Table 1).
        self.queue_wait_cycles = 0
        self.deadlock_timeout = deadlock_timeout
        self.deadlock_reliefs = 0
        self._stalled_since: Optional[int] = None
        self._relief_event = None
        #: Optional hook called right before a packet starts traversing the
        #: link.  Injection links use it to make the routing decision at the
        #: exact moment the first flit leaves the NIC, so the decision sees
        #: the freshest congestion information available.
        self.on_transmit: Optional[Callable[[Packet], None]] = None

    # -- congestion probes ---------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Current downstream-buffer occupancy in flits (capacity - credits)."""
        arrivals = self._credit_arrivals
        if arrivals and arrivals[0][0] <= self.sim._now:
            self._settle_credits(self.sim._now)
        return self.capacity - self.credits

    def local_congestion(self) -> float:
        """Congestion visible instantly on the upstream side: queued flits."""
        return float(self.queue_flits)

    def occupancy_view(self, now: int) -> int:
        """Occupancy counting credits arrived by ``now`` — without mutating.

        The probe/audit read: :attr:`occupancy` settles in-flight credit
        batches as a side effect, which is harmless for readers that always
        settle first but would perturb the *unsettled* ``credits`` value the
        zero-delay routing probe reads (:meth:`UgalSelector._path_score`
        with ``credit_info_delay <= 0``).  This view folds due batches in
        arithmetically, leaving ``credits``/``_credit_arrivals`` untouched,
        so observers cannot change any routing decision.
        """
        credits = self.credits
        for batch in self._credit_arrivals:
            if batch[0] > now:
                break
            credits += batch[1]
        return self.capacity - credits

    def far_congestion(self) -> float:
        """Downstream occupancy as it was ``credit_info_delay`` cycles ago.

        With no delay this is the true current occupancy; a positive delay
        reproduces stale credit information (phantom congestion).  A link
        answers only at its own delay, the one its history is trimmed for.

        The read returns the last sample at or before the horizon
        ``now - credit_info_delay``.  Samples are in time order, at most one
        per cycle, and the clock never runs back, so every later read's
        horizon is at or after the current one.  A sample at or before the
        current horizon is therefore one that every later read would pop
        anyway, and the writers fold such samples into the delayed value as
        soon as they append a newer one.  Folding early is exact: this read
        returns the same last sample as it would over the full history.
        """
        window = self._window
        if not window:
            return float(self.occupancy)
        now = self.sim._now
        arrivals = self._credit_arrivals
        if arrivals and arrivals[0][0] <= now:
            self._settle_credits(now)
        horizon = now - window
        # Advance the delayed pointer: drop samples older than the horizon,
        # remembering the last one dropped — that is the value visible now.
        hist = self._occ_history
        while hist and hist[0][0] <= horizon:
            self._occ_delayed_value = hist.pop(0)[1]
        return float(self._occ_delayed_value)

    # -- sending -------------------------------------------------------------

    def enqueue(self, packet: Packet) -> None:
        """Queue a packet for transmission over this link."""
        now = self.sim._now
        packet.last_enqueue_time = now
        queue = self.queue
        queue.append(packet)
        self.queue_flits += packet.flits
        if len(queue) > 1:
            # A waiting head already arranged its own wakeup (retry,
            # pipeline boundary, credit wake or relief valve) when it became
            # head; a deeper queue changes nothing for it.
            return
        if self.busy_until > now:
            if not self._retry_scheduled:
                self._retry_scheduled = True
                self._schedule_call(self.busy_until - now, self._retry_cb)
            return
        self._try_send()

    def return_credits(self, flits: int) -> None:
        """Put ``flits`` credits on the wire; they land after the link latency.

        No event is scheduled for the common case: the in-flight batch is
        folded into the credit count lazily by the next reader (a send
        attempt or a congestion probe).  Only a credit-stalled link needs a
        real wake-up, scheduled for the earliest pending arrival — in the
        benchmark scenario ~96% of credit returns wake nobody, so this takes
        the credit path out of the event queue almost entirely.
        """
        arrivals = self._credit_arrivals
        arrival = self.sim._now + self.latency
        if arrivals:
            last = arrivals[-1]
            if last[0] == arrival:
                last[1] += flits
            else:
                arrivals.append([arrival, flits])
        else:
            arrivals.append([arrival, flits])
        if self._stalled_since is not None and not self._wake_scheduled:
            self._wake_scheduled = True
            self._schedule_call(arrivals[0][0] - self.sim._now, self._credit_wake_cb)

    def _settle_credits(self, now: int) -> None:
        """Fold every credit batch that has arrived by ``now`` into the count.

        Occupancy-history samples are backdated to each batch's arrival
        cycle.  Every reader settles before touching ``credits`` or the
        history, and fresh batches always land at ``now + latency``, so the
        history stays in non-decreasing time order.  A lazy settle may
        backdate a sample to ``now - credit_info_delay`` or earlier; the
        fold at the end moves it, with every older sample, into the delayed
        value (exact, see :meth:`far_congestion`).
        """
        arrivals = self._credit_arrivals
        first = arrivals[0]
        if first[0] > now:
            return
        credits = self.credits
        capacity = self.capacity
        window = self._window
        hist = self._occ_history
        returned = 0
        while True:
            t = first[0]
            credits += first[1]
            returned += first[1]
            arrivals.pop(0)
            if window:
                if hist and hist[-1][0] == t:
                    hist[-1] = (t, capacity - credits)
                else:
                    hist.append((t, capacity - credits))
            if not arrivals:
                break
            first = arrivals[0]
            if first[0] > now:
                break
        self.credits = credits
        self.credits_returned += returned
        if credits > capacity:
            raise RuntimeError(f"{self.name}: credit overflow ({credits}/{capacity})")
        if window:
            horizon = now - window
            while hist and hist[0][0] <= horizon:
                self._occ_delayed_value = hist.pop(0)[1]

    def _credit_wake(self) -> None:
        self._wake_scheduled = False
        self._try_send()

    def _try_send(self) -> None:
        if not self.queue:
            return
        now = self.sim._now
        if self.busy_until > now:
            if not self._retry_scheduled:
                self._retry_scheduled = True
                self._schedule_call(self.busy_until - now, self._retry_cb)
            return
        packet = self.queue[0]
        arrivals = self._credit_arrivals
        if arrivals and arrivals[0][0] <= now:
            self._settle_credits(now)
        if self.credits < packet.flits:
            # Head-of-line blocking due to missing credits.
            if self._stalled_since is None:
                self._stalled_since = now
                # Guarantee a later wake-up even if no credits ever return, so
                # the escape valve below can fire.  The event is cancelled as
                # soon as the head packet leaves.
                self._relief_event = self.sim.schedule(
                    self.deadlock_timeout + 1, self._try_send
                )
            if self.measure_stalls and self._stall_start is None:
                self._stall_start = now
            # Wake exactly when the next in-flight credit batch lands (all
            # remaining batches are in the future after the settle above).
            if arrivals and not self._wake_scheduled:
                self._wake_scheduled = True
                self._schedule_call(arrivals[0][0] - now, self._credit_wake_cb)
            if now - self._stalled_since >= self.deadlock_timeout:
                # Escape valve: proceed without waiting for credits (emulates
                # an escape virtual channel); credits may go negative and the
                # link keeps back-pressuring until they recover.
                self.deadlock_reliefs += 1
                self._send_head(borrow=True)
            return
        self._send_head(borrow=False)

    def _retry(self) -> None:
        self._retry_scheduled = False
        self._try_send()

    def _send_head(self, borrow: bool) -> None:
        now = self.sim._now
        packet = self.queue.popleft()
        flits = packet.flits
        self.queue_flits -= flits
        self.queue_wait_cycles += now - packet.last_enqueue_time
        self._stalled_since = None
        if self._relief_event is not None:
            self._relief_event.cancel()
            self._relief_event = None
        if self.on_transmit is not None:
            self.on_transmit(packet)
        if self.measure_stalls:
            if self._stall_start is not None:
                stalled = now - self._stall_start
                self._stall_start = None
                if stalled > 0 and self.on_stall is not None:
                    self.on_stall(stalled, packet)
            if packet.inject_start_time is None:
                packet.inject_start_time = now
        # Credits are always consumed so that later returns keep the
        # accounting consistent; with ``borrow`` the balance may go negative.
        credits = self.credits - flits
        self.credits = credits
        window = self._window
        if window:
            hist = self._occ_history
            if hist and hist[-1][0] == now:
                hist[-1] = (now, self.capacity - credits)
            else:
                hist.append((now, self.capacity - credits))
                # The new sample is newer than the horizon, so the loop
                # stops before emptying the history.
                horizon = now - window
                while hist[0][0] <= horizon:
                    self._occ_delayed_value = hist.pop(0)[1]
        # Release the buffer the packet occupied at the upstream element.
        previous = packet.holding_link
        packet.holding_link = self
        if previous is not None:
            previous.return_credits(flits)
        serialization = self._ser_table.get(flits)
        if serialization is None:
            serialization = max(1, -(-flits // self.width) * self.cycles_per_flit)
            self._ser_table[flits] = serialization
        self.busy_until = now + serialization
        self.packets_forwarded += 1
        self.flits_forwarded += flits
        if self.queue and not self._retry_scheduled:
            # Merge the wire-free wakeup with the packet's departure onto the
            # wire: one callback at the serialization boundary pipelines the
            # next packet AND puts this one in flight, instead of scheduling
            # a separate retry/arrival pair.
            self._retry_scheduled = True
            self._schedule_call(serialization, self._transmit_done_cb, packet)
        else:
            self._schedule_call(
                serialization + self.latency, self._arrive_cb, packet, self
            )

    def _transmit_done(self, packet: Packet) -> None:
        self._schedule_call(self.latency, self._arrive_cb, packet, self)
        self._retry_scheduled = False
        self._try_send()

    def _arrive(self, packet: Packet, _link: "Link") -> None:
        raise RuntimeError(f"{self.name}: no delivery callback configured")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.name} queue={len(self.queue)} credits={self.credits}/{self.capacity}>"
        )
