"""The MPI-like job: rank placement, progress engine and point-to-point layer.

An :class:`MpiJob` binds a set of ranks to compute nodes of any
:class:`~repro.model.base.NetworkModel` backend (flit-level or flow-level),
gives each rank a :class:`~repro.core.policy.RoutingPolicy`, and drives rank
*programs* (Python generators yielding :class:`~repro.mpi.request.Request`
objects).

Point-to-point semantics
------------------------

* ``isend`` — posts an RDMA PUT through the node's NIC.  The send request
  completes when all response packets have returned to the sender (source-
  side completion, as uGNI reports it).  Intra-node sends bypass the network
  and use the host model (shared-memory copy + contention + OS noise).
* ``irecv`` — completes when a matching message has been fully delivered to
  the destination NIC, plus the host-side receive overhead.
* matching is FIFO per ``(source rank, destination rank, tag)``.

Host-side effects (software overhead, OS noise, intra-node memory-bandwidth
contention) are modelled explicitly because Section 3.3 of the paper shows
they are easily mistaken for network noise.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import HostConfig
from repro.core.policy import RoutingPolicy, default_policy
from repro.model.base import NetworkModel
from repro.mpi.request import Request
from repro.network.packet import Message, RdmaOp
from repro.routing.modes import RoutingMode
from repro.sim.rng import RandomStreams
from repro.telemetry.core import TELEMETRY

ProgramFactory = Callable[["RankContext"], "object"]
PolicyFactory = Callable[[], RoutingPolicy]

_job_counter = 0


class MpiJob:
    """A set of ranks running a program over the simulated network."""

    def __init__(
        self,
        network: NetworkModel,
        rank_nodes: Sequence[int],
        policy_factory: Optional[PolicyFactory] = None,
        host_config: Optional[HostConfig] = None,
        name: Optional[str] = None,
        streams: Optional[RandomStreams] = None,
    ):
        global _job_counter
        if not rank_nodes:
            raise ValueError("a job needs at least one rank")
        for node in rank_nodes:
            if not 0 <= node < network.num_nodes:
                raise ValueError(f"rank placed on unknown node {node}")
        self.network = network
        self.sim = network.sim
        self.rank_nodes: List[int] = list(rank_nodes)
        self.size = len(self.rank_nodes)
        self.name = name or f"job{_job_counter}"
        self.job_id = _job_counter
        _job_counter += 1
        self.host = host_config or network.config.host
        self.streams = streams or network.streams.spawn(self.name)
        factory = policy_factory or default_policy
        self.policies: List[RoutingPolicy] = [factory() for _ in range(self.size)]
        #: Bytes each rank handed to the network (intra-node copies excluded).
        self._network_bytes: List[int] = [0] * self.size
        # Matching structures: (src_rank, dst_rank, tag) -> FIFO queues.
        self._pending_recvs: Dict[Tuple[int, int, object], Deque[Request]] = defaultdict(deque)
        self._unexpected: Dict[Tuple[int, int, object], Deque[Message]] = defaultdict(deque)
        self._ranks_per_node: Dict[int, int] = defaultdict(int)
        for node in self.rank_nodes:
            self._ranks_per_node[node] += 1
        self._active_ranks = 0
        self._finished = False
        self._failures: List[BaseException] = []
        #: Invoked (with this job) from inside the event loop when the last
        #: rank finishes — the hook a cluster scheduler uses to free nodes
        #: and admit queued jobs at the exact completion cycle.
        self.on_finished: Optional[Callable[["MpiJob"], None]] = None
        #: Per-node count of in-flight host operations (contention model).
        self._host_inflight: Dict[int, int] = defaultdict(int)
        self._msg_seq = 0

    # -- rank placement helpers ------------------------------------------------

    def node_of(self, rank: int) -> int:
        """Node hosting a rank."""
        return self.rank_nodes[rank]

    def ranks_on_node(self, node: int) -> int:
        """How many of this job's ranks share the given node."""
        return self._ranks_per_node[node]

    @property
    def contexts(self) -> List["RankContext"]:
        """A fresh :class:`RankContext` per rank, built on each access.

        The job keeps none: a stored context refers back to its job, and
        the pair would outlive the run until the cyclic garbage collector
        found it.
        """
        return [RankContext(self, rank) for rank in range(self.size)]

    # -- program execution --------------------------------------------------------

    def start(self, program: ProgramFactory) -> None:
        """Launch ``program(ctx)`` on every rank (non-blocking)."""
        if self._active_ranks:
            raise RuntimeError("job already has running ranks")
        self._finished = False
        self._failures = []
        for rank in range(self.size):
            generator = program(RankContext(self, rank))
            if generator is None:
                continue
            self._active_ranks += 1
            # Stagger program starts by a tiny per-rank offset: real job
            # launches are never perfectly synchronous.
            self.sim.schedule_call(rank % 3, self._advance, rank, generator, None)

    def run(self, program: ProgramFactory, max_events: int = 200_000_000) -> int:
        """Launch a program on all ranks and run until they all finish.

        Returns the simulation time at which the last rank finished.  Events
        belonging to other traffic (background jobs) keep executing while the
        job runs and simply remain queued afterwards.
        """
        if not TELEMETRY.enabled:
            return self._run(program, max_events)
        cycles_before = self.sim.now
        with TELEMETRY.tracer.span("sim.run", cat="sim", job=self.name) as sp:
            result = self._run(program, max_events)
            sp.add(events=self.sim.events_executed,
                   cycles=result - cycles_before,
                   queue_depth=self.sim.live_events,
                   ranks=self.size)
        return result

    def _run(self, program: ProgramFactory, max_events: int) -> int:
        self.start(program)
        sim = self.sim
        remaining = max_events
        # The simulator's run loop is much cheaper per event than stepping
        # one event at a time; _rank_done/_fail request a stop from inside
        # the callback, so the loop still returns at the exact event that
        # finishes (or fails) the job.
        while not self._finished:
            if self._failures:
                raise self._failures[0]
            before = sim.events_executed
            sim.run(max_events=remaining)
            ran = sim.events_executed - before
            remaining -= ran
            if self._failures:
                raise self._failures[0]
            if self._finished:
                break
            if sim.empty():
                raise RuntimeError(
                    f"{self.name}: simulation ran out of events before all ranks "
                    "finished — a rank is waiting for a message that was never sent"
                )
            if remaining <= 0:
                raise RuntimeError(f"{self.name}: exceeded {max_events} events")
        if self._failures:
            raise self._failures[0]
        return self.sim.now

    @property
    def finished(self) -> bool:
        """True once every rank's program has returned."""
        return self._finished

    @property
    def failures(self) -> List[BaseException]:
        """Program exceptions collected so far (empty on the happy path)."""
        return list(self._failures)

    def _advance(self, rank: int, generator, value) -> None:
        try:
            yielded = generator.send(value)
        except StopIteration:
            self._rank_done()
            return
        except BaseException as exc:  # propagate program bugs to the caller
            self._failures.append(exc)
            self.sim.stop()  # surface the failure without draining the queue
            self._rank_done()
            return
        requests = yielded if isinstance(yielded, (list, tuple)) else [yielded]
        self._wait_all(rank, generator, list(requests), yielded)

    def _wait_all(self, rank: int, generator, requests: List[Request], original) -> None:
        remaining = len(requests)
        if remaining == 0:
            self.sim.schedule_call(0, self._advance, rank, generator, original)
            return
        state = {"remaining": remaining}

        def _one_done(_req: Request) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                # Resume through the event queue (never synchronously) so deep
                # chains of already-completed requests cannot overflow the
                # Python call stack.
                self.sim.schedule_call(0, self._advance, rank, generator, original)

        for request in requests:
            if not isinstance(request, Request):
                self._failures.append(
                    TypeError(f"rank {rank} yielded {request!r}, expected Request")
                )
                self.sim.stop()
                self._rank_done()
                return
            request.add_callback(_one_done)

    def _rank_done(self) -> None:
        self._active_ranks -= 1
        if self._active_ranks == 0:
            self._finished = True
            self.sim.stop()
            if self.on_finished is not None:
                self.on_finished(self)

    # -- point-to-point engine -------------------------------------------------------

    def _next_tag(self) -> int:
        self._msg_seq += 1
        return self._msg_seq

    def post_send(
        self,
        src_rank: int,
        dst_rank: int,
        size_bytes: int,
        tag: object = 0,
        collective: Optional[str] = None,
    ) -> Request:
        """Non-blocking send from ``src_rank`` to ``dst_rank``."""
        self._check_rank(src_rank)
        self._check_rank(dst_rank)
        request = Request("send", src_rank)
        src_node = self.node_of(src_rank)
        dst_node = self.node_of(dst_rank)
        overhead = self._host_delay(src_node, self.host.send_overhead)
        if src_node == dst_node:
            self.sim.schedule_call(
                overhead,
                self._intra_node_transfer,
                src_rank,
                dst_rank,
                size_bytes,
                tag,
                request,
            )
        else:
            self.sim.schedule_call(
                overhead,
                self._network_send,
                src_rank,
                dst_rank,
                size_bytes,
                tag,
                collective,
                request,
            )
        return request

    def post_recv(self, dst_rank: int, src_rank: int, tag: object = 0) -> Request:
        """Non-blocking receive posted by ``dst_rank`` for a message from ``src_rank``."""
        self._check_rank(src_rank)
        self._check_rank(dst_rank)
        request = Request("recv", dst_rank)
        key = (src_rank, dst_rank, tag)
        unexpected = self._unexpected.get(key)
        if unexpected:
            unexpected.popleft()
            overhead = self._host_delay(self.node_of(dst_rank), self.host.recv_overhead)
            self.sim.schedule_call(overhead, request.complete, self.sim.now)
        else:
            self._pending_recvs[key].append(request)
        return request

    def post_compute(self, rank: int, cycles: int) -> Request:
        """A local computation burst of ``cycles`` cycles (plus OS noise)."""
        self._check_rank(rank)
        request = Request("compute", rank)
        delay = self._host_delay(self.node_of(rank), max(0, int(cycles)))
        self.sim.schedule_call(delay, request.complete, self.sim.now)
        return request

    # -- internal transfer paths ---------------------------------------------------------

    def _network_send(
        self,
        src_rank: int,
        dst_rank: int,
        size_bytes: int,
        tag: object,
        collective: Optional[str],
        request: Request,
    ) -> None:
        src_node = self.node_of(src_rank)
        dst_node = self.node_of(dst_rank)
        policy = self.policies[src_rank]
        mode = policy.mode_for(size_bytes, dst_node, collective)
        self._network_bytes[src_rank] += size_bytes
        key = (src_rank, dst_rank, tag)

        if type(policy).observe is RoutingPolicy.observe:
            # A policy that inherits the no-op observe is fed nothing, so
            # no counters are snapshotted for it.
            def _on_acked(message: Message) -> None:
                request.complete(self.sim.now, message)
        else:
            nic = self.network.nic(src_node)
            before = nic.counters.snapshot()

            def _on_acked(message: Message) -> None:
                after = nic.counters.snapshot()
                policy.observe(after.delta(before), mode)
                request.complete(self.sim.now, message)

        def _on_delivered(message: Message) -> None:
            self._match_delivery(key, message)

        self.network.send(
            src_node=src_node,
            dst_node=dst_node,
            size_bytes=size_bytes,
            routing_mode=mode,
            op=RdmaOp.PUT,
            on_delivered=_on_delivered,
            on_acked=_on_acked,
            tag=(self.job_id, *key, self._next_tag()),
        )

    def _intra_node_transfer(
        self,
        src_rank: int,
        dst_rank: int,
        size_bytes: int,
        tag: object,
        request: Request,
    ) -> None:
        """Shared-memory transfer between two ranks of the same node."""
        node = self.node_of(src_rank)
        concurrent = max(1, self._host_inflight[node] + 1)
        self._host_inflight[node] += 1
        contention = 1.0 + self.host.contention_factor * (concurrent - 1)
        copy_cycles = int(
            self.host.intra_node_latency
            + size_bytes / self.host.intra_node_bytes_per_cycle * contention
        )
        copy_cycles = self._with_os_noise(node, copy_cycles)
        key = (src_rank, dst_rank, tag)

        def _complete() -> None:
            self._host_inflight[node] -= 1
            request.complete(self.sim.now)
            self._match_delivery(key, None)

        self.sim.schedule_call(copy_cycles, _complete)

    def _match_delivery(self, key: Tuple[int, int, object], message: Optional[Message]) -> None:
        """Complete a posted receive or store the message as unexpected."""
        pending = self._pending_recvs.get(key)
        if pending:
            request = pending.popleft()
            dst_rank = key[1]
            overhead = self._host_delay(self.node_of(dst_rank), self.host.recv_overhead)
            self.sim.schedule_call(overhead, request.complete, self.sim.now, message)
        else:
            self._unexpected[key].append(message)

    # -- host-side noise model ----------------------------------------------------------------

    def _host_delay(self, node: int, base_cycles: int) -> int:
        """Base host delay plus OS-noise detours."""
        return self._with_os_noise(node, base_cycles)

    def _with_os_noise(self, node: int, cycles: int) -> int:
        host = self.host
        rng = self.streams
        if host.os_noise_probability > 0 and rng.random("os-noise") < host.os_noise_probability:
            cycles += int(rng.expovariate("os-noise-duration", host.os_noise_mean))
        return max(0, int(cycles))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for job of size {self.size}")

    # -- reporting ---------------------------------------------------------------------------

    def default_traffic_fraction(self) -> float:
        """Byte-weighted fraction of traffic sent with the Default family.

        Each rank's policy fraction counts by the bytes the rank sent over
        the network, so a rank that sent nothing does not count.  A job
        that sent nothing reports the mean over its ranks' policies.
        """
        fractions = [p.default_traffic_fraction() for p in self.policies]
        total = sum(self._network_bytes)
        if total == 0:
            return sum(fractions) / len(fractions)
        return sum(f * b for f, b in zip(fractions, self._network_bytes)) / total

    def policy_label(self) -> str:
        """Label of the routing policy in use (assumed uniform across ranks)."""
        return self.policies[0].describe()


class RankContext:
    """Per-rank facade handed to rank programs.

    All methods return :class:`Request` objects (to be yielded) or are
    generators themselves (``yield from`` them) for blocking/collective
    semantics.
    """

    def __init__(self, job: MpiJob, rank: int):
        self.job = job
        self.rank = rank

    # -- basics ----------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self.job.size

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self.job.sim.now

    @property
    def node(self) -> int:
        """The node this rank runs on."""
        return self.job.node_of(self.rank)

    # -- non-blocking primitives --------------------------------------------------

    def isend(
        self,
        dst_rank: int,
        size_bytes: int,
        tag: object = 0,
        collective: Optional[str] = None,
    ) -> Request:
        """Post a non-blocking send."""
        return self.job.post_send(self.rank, dst_rank, size_bytes, tag, collective)

    def irecv(self, src_rank: int, tag: object = 0) -> Request:
        """Post a non-blocking receive."""
        return self.job.post_recv(self.rank, src_rank, tag)

    def compute(self, cycles: int) -> Request:
        """Post a local compute burst."""
        return self.job.post_compute(self.rank, cycles)

    # -- blocking helpers (generators) ----------------------------------------------

    def send(self, dst_rank: int, size_bytes: int, tag: object = 0, collective: Optional[str] = None):
        """Blocking send (waits for source-side completion)."""
        yield self.isend(dst_rank, size_bytes, tag, collective)

    def recv(self, src_rank: int, tag: object = 0):
        """Blocking receive."""
        yield self.irecv(src_rank, tag)

    def sendrecv(
        self,
        dst_rank: int,
        src_rank: int,
        size_bytes: int,
        tag: object = 0,
        collective: Optional[str] = None,
        recv_size: Optional[int] = None,
    ):
        """Simultaneous send and receive (completes when both do)."""
        del recv_size  # sizes are symmetric in all our workloads
        yield [
            self.isend(dst_rank, size_bytes, tag, collective),
            self.irecv(src_rank, tag),
        ]

    # -- collectives -------------------------------------------------------------------

    def barrier(self, tag: object = "barrier"):
        """Dissemination barrier."""
        from repro.mpi.collectives import barrier

        yield from barrier(self, tag=tag)

    def bcast(self, size_bytes: int, root: int = 0, tag: object = "bcast"):
        """Binomial-tree broadcast."""
        from repro.mpi.collectives import bcast

        yield from bcast(self, size_bytes, root=root, tag=tag)

    def allreduce(self, size_bytes: int, tag: object = "allreduce"):
        """Allreduce (recursive doubling / ring)."""
        from repro.mpi.collectives import allreduce

        yield from allreduce(self, size_bytes, tag=tag)

    def alltoall(self, size_bytes_per_pair: int, tag: object = "alltoall"):
        """Pairwise-exchange all-to-all."""
        from repro.mpi.collectives import alltoall

        yield from alltoall(self, size_bytes_per_pair, tag=tag)

    def allgather(self, size_bytes_per_rank: int, tag: object = "allgather"):
        """Ring allgather."""
        from repro.mpi.collectives import allgather

        yield from allgather(self, size_bytes_per_rank, tag=tag)

    def reduce(self, size_bytes: int, root: int = 0, tag: object = "reduce"):
        """Binomial-tree reduction."""
        from repro.mpi.collectives import reduce

        yield from reduce(self, size_bytes, root=root, tag=tag)
