"""Multi-tenant replay: a FIFO cluster scheduler over one shared network.

:class:`ClusterScheduler` replays a :class:`~repro.cluster.trace.JobTrace`
on a single :class:`~repro.model.base.NetworkModel` (in practice the flow
backend — its incremental solver is exactly shaped for flows churning as
jobs start and stop):

* each arrival is a simulator event at the job's submit cycle;
* admission is first-come-first-served: the head job gets nodes from the
  shared allocation policy (:mod:`repro.allocation.policies` with the
  ``occupied`` free-node view) or waits until a completion frees them;
* every admitted job is an :class:`~repro.mpi.job.MpiJob` running its
  workload program concurrently with all other resident jobs — the
  interference under study;
* completions (via ``MpiJob.on_finished``, inside the event loop) free
  nodes and immediately re-try admission at the same cycle.

Per-job metrics come out as :class:`JobRecord` rows — wait time, runtime,
slowdown/stretch against the job's own isolated baseline (the same job,
same placement, same seeds, alone on a fresh network) — and trace-level
aggregates (makespan, mean/p95 slowdown, Jain fairness) via
:meth:`ClusterResult.metrics`, shaped for the campaign store's flat metric
columns.

Isolated baselines need only the nodes the replay chose, so where a second
CPU is usable they run in one forked child while the shared replay
proceeds: the child is forked at the first job start (after the first
event, so set-up stays single-process), is handed each job as it starts,
and answers once the replay ends.  Without ``os.fork``, on one usable CPU,
or with telemetry on (a traced cell keeps its baselines' spans) they run
in-process after the replay instead.  Either way they run with probes
paused, so probe series describe the shared network alone.

Everything is driven by seeded named RNG streams, so a replay is a pure
function of (trace, network config, policy, routing mode) — serial,
parallel and distributed campaign executions produce identical artifacts.
"""

from __future__ import annotations

import json
import os
import signal
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.allocation.policies import (
    AllocationPolicy,
    MachineFullError,
    allocate,
)
from repro.analysis.reporting import Table
from repro.analysis.stats import percentile
from repro.cluster.trace import JobTrace, TraceJob
from repro.core.policy import StaticRoutingPolicy
from repro.model.base import NetworkModel
from repro.mpi.job import MpiJob
from repro.routing.modes import RoutingMode
from repro.telemetry.core import TELEMETRY
from repro.telemetry.probes import probes_paused

#: Default event budget for one replay (same order as MpiJob.run's default).
DEFAULT_MAX_EVENTS = 500_000_000

#: The line after the last job sent to a baseline child.  Input that ends
#: without it means the parent died.
_END_OF_JOBS = "end\n"


class ClusterReplayError(RuntimeError):
    """Raised when a replay cannot make progress or exceeds its budget."""


@dataclass
class JobRecord:
    """Lifecycle and metrics of one trace job through the replay."""

    job: TraceJob
    #: Nodes the job ran on (empty until admitted).
    nodes: Tuple[int, ...] = ()
    #: Cycle the arrival event fired (== job.submit_time for a fresh sim).
    submit_time: Optional[int] = None
    start_time: Optional[int] = None
    finish_time: Optional[int] = None
    #: Cycles the same job takes alone on a fresh network (None: no baseline).
    isolated_cycles: Optional[int] = None
    iteration_times: List[int] = field(default_factory=list)

    @property
    def wait_time(self) -> Optional[int]:
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def runtime(self) -> Optional[int]:
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    @property
    def slowdown(self) -> Optional[float]:
        """Shared runtime over isolated runtime (>= ~1 under interference)."""
        if self.runtime is None or not self.isolated_cycles:
            return None
        return self.runtime / self.isolated_cycles

    @property
    def stretch(self) -> Optional[float]:
        """Turnaround (wait + runtime) over isolated runtime."""
        if (
            self.wait_time is None
            or self.runtime is None
            or not self.isolated_cycles
        ):
            return None
        return (self.wait_time + self.runtime) / self.isolated_cycles

    def row(self) -> Dict[str, object]:
        """A flat JSON-safe row (the per-job table stored per cell)."""
        return {
            "job_id": self.job.job_id,
            "workload": self.job.workload,
            "num_nodes": self.job.num_nodes,
            "submit": self.submit_time,
            "start": self.start_time,
            "finish": self.finish_time,
            "wait": self.wait_time,
            "runtime": self.runtime,
            "isolated": self.isolated_cycles,
            "slowdown": None if self.slowdown is None else round(self.slowdown, 6),
            "stretch": None if self.stretch is None else round(self.stretch, 6),
        }


def jain_fairness(values: List[float]) -> Optional[float]:
    """Jain's fairness index: 1.0 when everyone is slowed equally."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    if sum_of_squares <= 0:
        return None
    return square_of_sum / (len(values) * sum_of_squares)


@dataclass
class ClusterResult:
    """Everything a replay produced, with metric/report helpers."""

    trace_name: str
    policy: str
    routing_mode: str
    records: List[JobRecord]
    makespan: int

    def job_rows(self) -> List[Dict[str, object]]:
        """Per-job rows in job-id order (the stored per-job table)."""
        return [r.row() for r in sorted(self.records, key=lambda r: r.job.job_id)]

    def metrics(self) -> Dict[str, float]:
        """Flat trace-level aggregates (campaign store metric columns)."""
        waits = [float(r.wait_time) for r in self.records if r.wait_time is not None]
        runtimes = [float(r.runtime) for r in self.records if r.runtime is not None]
        out: Dict[str, float] = {
            "jobs": float(len(self.records)),
            "makespan": float(self.makespan),
            "mean_wait": sum(waits) / len(waits) if waits else 0.0,
            "max_wait": max(waits) if waits else 0.0,
            "mean_runtime": sum(runtimes) / len(runtimes) if runtimes else 0.0,
        }
        slowdowns = [r.slowdown for r in self.records if r.slowdown is not None]
        if slowdowns:
            out["mean_slowdown"] = sum(slowdowns) / len(slowdowns)
            out["p95_slowdown"] = percentile(slowdowns, 95)
            out["max_slowdown"] = max(slowdowns)
            fairness = jain_fairness(slowdowns)
            if fairness is not None:
                out["fairness"] = fairness
        stretches = [r.stretch for r in self.records if r.stretch is not None]
        if stretches:
            out["mean_stretch"] = sum(stretches) / len(stretches)
        return {name: round(value, 6) for name, value in out.items()}

    def slowdown_table(self) -> str:
        """The per-job slowdown table (one row per job, job-id order)."""
        table = Table(
            title=(
                f"cluster trace {self.trace_name} — policy {self.policy}, "
                f"routing {self.routing_mode}"
            ),
            columns=[
                "job", "workload", "nodes", "submit", "wait", "runtime",
                "slowdown", "stretch",
            ],
        )
        for row in self.job_rows():
            table.add_row(
                row["job_id"],
                row["workload"],
                row["num_nodes"],
                row["submit"],
                row["wait"],
                row["runtime"],
                "-" if row["slowdown"] is None else f"{row['slowdown']:.3f}",
                "-" if row["stretch"] is None else f"{row['stretch']:.3f}",
            )
        return table.render()


class ClusterScheduler:
    """FIFO scheduler replaying a job trace on one shared network."""

    def __init__(
        self,
        network: NetworkModel,
        trace: JobTrace,
        *,
        allocation_policy: AllocationPolicy = AllocationPolicy.SCATTERED,
        routing_mode: RoutingMode = RoutingMode.ADAPTIVE_3,
        name: str = "cluster",
        baseline_factory: Optional[Callable[[], NetworkModel]] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.network = network
        self.sim = network.sim
        self.trace = trace
        self.policy = AllocationPolicy(allocation_policy)
        self.routing_mode = RoutingMode(routing_mode)
        self.name = name
        self.max_events = max_events
        self.topo = network.config.topology
        trace.validate(self.topo.num_nodes)
        #: Builds a fresh, empty twin network for isolated baselines.  When
        #: None, slowdown/stretch stay unset and only wait/runtime metrics
        #: are produced.
        self.baseline_factory = baseline_factory
        self._records: List[JobRecord] = [JobRecord(job) for job in trace.jobs]
        self._queue: Deque[JobRecord] = deque()
        self._running: Dict[int, Tuple[JobRecord, MpiJob, object, object]] = {}
        self._done: List[JobRecord] = []
        self._occupied: set = set()
        self._failures: List[BaseException] = []
        self._fork_baselines = False
        self._baseline_child: Optional[_BaselineChild] = None
        # One allocation stream per scheduler, derived from the network's
        # master seed — draws happen only on successful admission (the
        # policies raise MachineFullError before sampling), so retries
        # cannot skew the sequence.
        self._alloc_rng = network.streams.stream(f"{name}:alloc")

    # -- inspection -------------------------------------------------------------

    @property
    def jobs_running(self) -> int:
        """Jobs currently resident on the machine."""
        return len(self._running)

    @property
    def jobs_queued(self) -> int:
        """Jobs submitted but not yet admitted."""
        return len(self._queue)

    @property
    def occupied_nodes(self) -> Tuple[int, ...]:
        """Sorted view of nodes held by running jobs."""
        return tuple(sorted(self._occupied))

    # -- replay -----------------------------------------------------------------

    def replay(self) -> ClusterResult:
        """Run the whole trace; returns the collected records and metrics."""
        if self._done or self._running or self._queue:
            raise ClusterReplayError("a scheduler instance replays exactly once")
        start_cycle = self.sim.now
        for record in self._records:
            self.sim.schedule_at(
                start_cycle + record.job.submit_time, self._arrive, record
            )
        span = (
            TELEMETRY.tracer.span(
                "cluster.replay", cat="cluster",
                trace=self.trace.name, jobs=len(self._records),
                policy=self.policy.value, mode=self.routing_mode.value,
            )
            if TELEMETRY.enabled
            else None
        )
        if span is not None:
            span.__enter__()
        # Baselines run on fresh networks with the same job names (hence
        # the same derived RNG streams), so they are order-independent and
        # may run anywhere.  Each job gets its own: the name seeds its
        # OS-noise draws, so two jobs of the same shape on the same nodes
        # do not share a baseline.  Where a second CPU is usable they run
        # in a child that _start_job forks at the first job start and
        # hands every job as it starts; otherwise, and in a traced run
        # (whose baselines keep their spans), they run here after the
        # replay.
        self._fork_baselines = (
            self.baseline_factory is not None
            and not TELEMETRY.enabled
            and hasattr(os, "fork")
            and _usable_cpus() > 1
        )
        isolated: Dict[int, int] = {}
        try:
            self._drive()
            if self._baseline_child is not None:
                isolated = self._baseline_child.collect()
        finally:
            if self._baseline_child is not None:
                self._baseline_child.kill()
            if span is not None:
                span.add(completed=len(self._done))
                span.__exit__(None, None, None)
        makespan = max(
            (r.finish_time for r in self._done if r.finish_time is not None),
            default=self.sim.now,
        ) - start_cycle
        if self.baseline_factory is not None:
            for record in sorted(self._done, key=lambda r: r.job.job_id):
                record.isolated_cycles = (
                    isolated[record.job.job_id]
                    if isolated
                    else self._isolated_cycles(record)
                )
        return ClusterResult(
            trace_name=self.trace.name,
            policy=self.policy.value,
            routing_mode=self.routing_mode.value,
            records=list(self._records),
            makespan=makespan,
        )

    def _drive(self) -> None:
        total = len(self._records)
        remaining = self.max_events
        sim = self.sim
        while len(self._done) < total:
            if self._failures:
                raise self._failures[0]
            before = sim.events_executed
            sim.run(max_events=remaining)
            remaining -= sim.events_executed - before
            if self._failures:
                raise self._failures[0]
            if len(self._done) >= total:
                break
            if sim.empty():
                raise ClusterReplayError(
                    f"{self.name}: simulation drained with "
                    f"{len(self._queue)} queued and {len(self._running)} "
                    "running job(s) — a job is stuck"
                )
            if remaining <= 0:
                raise ClusterReplayError(
                    f"{self.name}: exceeded {self.max_events} events with "
                    f"{total - len(self._done)} job(s) unfinished"
                )

    # -- event handlers ---------------------------------------------------------

    def _arrive(self, record: JobRecord) -> None:
        record.submit_time = self.sim.now
        self._queue.append(record)
        if TELEMETRY.enabled:
            TELEMETRY.metrics.incr("cluster.jobs_submitted")
        self._admit_ready()

    def _admit_ready(self) -> None:
        # FIFO: the head job either fits now or blocks the queue until a
        # completion frees nodes (no backfilling — deterministic and
        # starvation-free).
        while self._queue:
            record = self._queue[0]
            try:
                allocation = allocate(
                    self.policy,
                    self.topo,
                    record.job.num_nodes,
                    rng=self._alloc_rng,
                    occupied=self.occupied_nodes,
                )
            except MachineFullError:
                break
            self._queue.popleft()
            self._start_job(record, tuple(allocation))
        if TELEMETRY.enabled:
            TELEMETRY.metrics.gauge("cluster.jobs_running", len(self._running))
            TELEMETRY.metrics.gauge("cluster.jobs_queued", len(self._queue))

    def _job_name(self, job: TraceJob) -> str:
        return f"{self.name}:{job.name}"

    def _start_job(self, record: JobRecord, nodes: Tuple[int, ...]) -> None:
        record.nodes = nodes
        record.start_time = self.sim.now
        self._occupied.update(nodes)
        workload = record.job.build_workload()
        mode = self.routing_mode
        mpi_job = MpiJob(
            self.network,
            list(nodes),
            policy_factory=lambda: StaticRoutingPolicy(mode),
            name=self._job_name(record.job),
        )
        mpi_job.on_finished = lambda job, record=record: self._job_done(record, job)
        span = None
        if TELEMETRY.enabled:
            span = TELEMETRY.tracer.span(
                "cluster.job",
                cat="cluster",
                job=record.job.name,
                workload=record.job.workload,
                nodes=record.job.num_nodes,
                submit=record.submit_time,
                start=record.start_time,
            )
            span.__enter__()
        self._running[record.job.job_id] = (record, mpi_job, workload, span)
        if self._fork_baselines and self._baseline_child is None:
            try:
                self._baseline_child = _BaselineChild(self)
            except OSError:  # out of processes: baselines run after the replay
                self._fork_baselines = False
        if self._baseline_child is not None:
            self._baseline_child.submit(record)
        mpi_job.start(workload.program)

    def _job_done(self, record: JobRecord, mpi_job: MpiJob) -> None:
        entry = self._running.pop(record.job.job_id, None)
        if entry is None:  # defensive: double completion
            return
        _, _, workload, span = entry
        if mpi_job.failures:
            self._failures.extend(mpi_job.failures)
            if span is not None:
                span.add(error=type(mpi_job.failures[0]).__name__)
                span.__exit__(None, None, None)
            return
        record.finish_time = self.sim.now
        record.iteration_times = list(getattr(workload, "iteration_times", []))
        self._occupied.difference_update(record.nodes)
        self._done.append(record)
        if span is not None:
            span.add(
                finish=record.finish_time,
                wait=record.wait_time,
                runtime=record.runtime,
            )
            span.__exit__(None, None, None)
        if TELEMETRY.enabled:
            TELEMETRY.metrics.incr("cluster.jobs_completed")
            if record.wait_time is not None:
                TELEMETRY.metrics.observe("cluster.job_wait_cycles", record.wait_time)
            if record.runtime is not None:
                TELEMETRY.metrics.observe("cluster.job_runtime_cycles", record.runtime)
        self._admit_ready()

    # -- isolated baselines -----------------------------------------------------

    def _isolated_cycles(self, record: JobRecord) -> int:
        """Cycles the job takes alone on a fresh network.

        The baseline job reuses the shared run's node placement and job
        name; name-derived RNG streams make its host-noise draws identical,
        so the only difference from the shared run is the absence of other
        tenants.
        """
        with probes_paused():
            network = self.baseline_factory()
            workload = record.job.build_workload()
            mode = self.routing_mode
            mpi_job = MpiJob(
                network,
                list(record.nodes),
                policy_factory=lambda: StaticRoutingPolicy(mode),
                name=self._job_name(record.job),
            )
            started = network.sim.now
            finished_at = mpi_job.run(workload.program)
        return max(1, finished_at - started)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _close_inherited_fds(*keep: int) -> None:
    """Close every descriptor above stdio except ``keep``.

    A forked child inherits all of its parent's descriptors: in a campaign
    worker the coordinator socket and the store's files among them.
    """
    low = 3
    for fd in sorted(keep) + [max(os.sysconf("SC_OPEN_MAX"), max(keep) + 1)]:
        os.closerange(low, fd)
        low = fd + 1


class _BaselineChild:
    """One forked child computing isolated baselines while the replay runs.

    The parent writes a ``job_id node...`` line per started job, then the
    end marker, then reads the child's one JSON reply.  The child replies
    only after its input closes, and keeps reading after a failed
    baseline, so the parent never blocks writing while the child blocks
    replying, whatever the trace's length.
    """

    def __init__(self, scheduler: ClusterScheduler):
        fds: List[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        jobs_r, jobs_w, results_r, results_w = fds
        if pid == 0:
            self._serve(scheduler, jobs_r, results_w)
        os.close(jobs_r)
        os.close(results_w)
        self.name = scheduler.name
        self.pid: Optional[int] = pid
        self._jobs = os.fdopen(jobs_w, "w", buffering=1)  # one flush per line
        self._results = os.fdopen(results_r)

    @staticmethod
    def _serve(scheduler: ClusterScheduler, jobs_fd: int, results_fd: int) -> None:
        """The child's whole life; it leaves only through ``os._exit``."""
        status = 1
        try:
            _close_inherited_fds(jobs_fd, results_fd)
            records = {record.job.job_id: record for record in scheduler._records}
            cycles: List[Tuple[int, int]] = []
            error: Optional[Dict[str, object]] = None
            with os.fdopen(jobs_fd) as jobs:
                for line in jobs:
                    if line == _END_OF_JOBS:
                        break
                    if error is not None:
                        continue
                    job_id, *nodes = map(int, line.split())
                    record = records[job_id]
                    record.nodes = tuple(nodes)
                    try:
                        cycles.append((job_id, scheduler._isolated_cycles(record)))
                    except Exception as exc:
                        error = {"job": job_id, "error": f"{type(exc).__name__}: {exc}"}
                else:
                    return  # no end marker: the parent died, nobody reads a reply
            with os.fdopen(results_fd, "w") as results:
                json.dump(error or {"cycles": cycles}, results)
            status = 0
        finally:
            os._exit(status)

    def _send(self, line: str) -> None:
        try:
            self._jobs.write(line)
        except BrokenPipeError:
            raise ClusterReplayError(
                f"{self.name}: the isolated-baseline child died"
            ) from None

    def submit(self, record: JobRecord) -> None:
        """Hand the child one started job."""
        self._send(f"{record.job.job_id} {' '.join(map(str, record.nodes))}\n")

    def collect(self) -> Dict[int, int]:
        """End the input, read every job's baseline cycles, reap the child."""
        self._send(_END_OF_JOBS)
        self._jobs.close()
        text = self._results.read()
        self._results.close()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if not text:
            raise ClusterReplayError(
                f"{self.name}: the isolated-baseline child exited with "
                f"status {status} and no results"
            )
        reply = json.loads(text)
        if "error" in reply:
            raise ClusterReplayError(
                f"{self.name}: isolated baseline of job {reply['job']} failed "
                f"in the baseline child: {reply['error']}"
            )
        return {job_id: cycles for job_id, cycles in reply["cycles"]}

    def kill(self) -> None:
        """Kill and reap the child unless :meth:`collect` did; idempotent."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        for stream in (self._jobs, self._results):
            try:
                stream.close()
            except OSError:  # a line the killed child never read
                pass
